_start:	halt
	.bss
	.quad 1
