_start:
	feq f0, f1, f2
