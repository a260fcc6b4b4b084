_start:
	snez
