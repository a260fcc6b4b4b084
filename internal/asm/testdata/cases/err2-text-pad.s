_start:
	.byte 1
	.align 2
	halt
