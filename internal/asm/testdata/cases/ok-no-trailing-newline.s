_start:
	halt