_start:
	frob a0
