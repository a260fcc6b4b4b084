_start:
	.byte 1 +
