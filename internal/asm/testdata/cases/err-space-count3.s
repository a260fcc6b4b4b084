_start:
	.space 1, 2, 3
