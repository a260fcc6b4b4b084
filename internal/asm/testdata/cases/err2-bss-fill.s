_start:	halt
	.bss
	.space 4, 1
