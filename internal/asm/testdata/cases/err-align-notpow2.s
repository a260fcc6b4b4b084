_start:
	.align 3
