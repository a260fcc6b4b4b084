_start:
	.byte 1
	.align 4
	halt
