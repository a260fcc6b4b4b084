_start:
	fli f0, one
