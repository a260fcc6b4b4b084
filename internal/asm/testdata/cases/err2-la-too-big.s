	.equ BIG, 0x100000000
_start:
	la a0, BIG
