_start:	halt
	.bss
	.space 0, 1
