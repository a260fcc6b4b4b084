_start:
	fneg f0, f1, f2
