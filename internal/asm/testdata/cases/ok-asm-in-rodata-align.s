
_start: halt
	.rodata
	.byte 1
	.align 8
x:	.quad x
	.align 1
	.align 4096
y:	.byte 2
