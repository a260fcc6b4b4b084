_start:
	.equ X
