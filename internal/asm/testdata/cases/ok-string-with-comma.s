_start:	halt
	.rodata
	.asciz "a,b,c"
	.byte 44 , 1
