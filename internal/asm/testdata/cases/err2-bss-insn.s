_start:	halt
	.bss
	add a0, a0, a0
