_start:
	la a0, nowhere
