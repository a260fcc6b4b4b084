_start:
	.space
