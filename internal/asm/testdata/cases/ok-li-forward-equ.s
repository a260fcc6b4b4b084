
_start:
	li a0, LATER
	li a1, LATER*2
	halt
	.equ LATER, 3
