_start:
	li a0
