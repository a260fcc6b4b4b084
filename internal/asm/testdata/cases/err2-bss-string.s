_start:	halt
	.bss
	.asciz "x"
