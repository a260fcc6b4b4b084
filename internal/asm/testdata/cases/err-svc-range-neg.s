_start:
	hint -8193
