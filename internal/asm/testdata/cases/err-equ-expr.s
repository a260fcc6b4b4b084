_start:
	.equ X, Y
