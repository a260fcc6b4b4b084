_start:
	.space -1
