_start:
	not a0, a1, a2
