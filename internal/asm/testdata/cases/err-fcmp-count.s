_start:
	feq a0, f1
