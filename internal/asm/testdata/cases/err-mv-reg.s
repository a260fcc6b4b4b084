_start:
	mv a0, 5
