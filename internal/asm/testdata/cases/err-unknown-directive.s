_start:
	.frob 1
