_start:
	fadd f0, f01, f1
