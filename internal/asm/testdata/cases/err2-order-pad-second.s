_start:
	j nowhere
	.byte 1
	.align 4
