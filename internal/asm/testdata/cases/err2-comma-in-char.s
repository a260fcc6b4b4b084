_start:	halt
	.rodata
	.asciz "a,b,c"
	.byte ',' , 1
