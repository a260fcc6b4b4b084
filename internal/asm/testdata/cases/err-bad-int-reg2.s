_start:
	add a0, f1, a2
