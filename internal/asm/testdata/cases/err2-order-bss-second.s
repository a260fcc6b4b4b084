_start:
	j nowhere
	.bss
	.byte 1
