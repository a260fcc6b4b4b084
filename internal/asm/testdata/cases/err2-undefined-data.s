_start:
	.quad nowhere
