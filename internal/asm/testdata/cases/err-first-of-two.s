_start:
	frob
	add a0
