_start:
	.equ 1x, 4
