_start:
	li a0, ';'
	halt
