
_start:
.L0:	nop
.Lloop$1:
	j .L0
	j .Lloop$1
	halt
