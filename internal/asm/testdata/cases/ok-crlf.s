_start:
	li a0, 1
	halt
