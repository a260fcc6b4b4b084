_start:
	fli a0, 1.0
