_start:
	bgt a0, 5, _start
