_start:
	.align later
	.equ later, 4
