_start:
	feq a0, a1, f2
