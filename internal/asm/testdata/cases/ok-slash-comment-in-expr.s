_start:
	li a0, 8 / 2
	li a1, 8 //2
	halt
