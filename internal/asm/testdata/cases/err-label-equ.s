	.equ X, 4
X:
