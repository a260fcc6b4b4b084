_start:	halt
	.bss
b:	.quad b
