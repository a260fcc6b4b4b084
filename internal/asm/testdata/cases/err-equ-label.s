X:
	.equ X, 4
