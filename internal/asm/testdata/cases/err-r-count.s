_start:
	add a0, a1
