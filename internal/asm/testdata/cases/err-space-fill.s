_start:
	.space 4, lbl
lbl:
