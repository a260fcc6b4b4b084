_start:
	.align 0
