_start:	halt
	.data
	.byte 0x1ff, -1
	.half 0x12345
	.word -1, 0x123456789
