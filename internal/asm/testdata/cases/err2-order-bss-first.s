	.bss
	.byte 1
	.text
_start:
	j nowhere
