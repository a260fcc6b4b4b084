_start:	halt
	.bss
	.quad nowhere
