_start:
	mv a0
