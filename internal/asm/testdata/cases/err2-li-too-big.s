_start:
	li a0, BIG
	.equ BIG, 0x100000000
