	.equ BIG, 100000
_start:
	addi a0, a0, BIG
