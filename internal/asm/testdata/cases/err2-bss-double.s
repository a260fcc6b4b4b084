_start:	halt
	.bss
	.double 1.5
