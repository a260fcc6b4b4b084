_start:
	.align
