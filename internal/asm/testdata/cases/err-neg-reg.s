_start:
	neg 1, a0
