_start:
	fli f0
