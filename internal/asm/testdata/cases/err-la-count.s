_start:
	la a0, b, c
