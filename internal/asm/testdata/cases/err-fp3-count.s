_start:
	fadd f0, f1
