	.asciz "\x1"
