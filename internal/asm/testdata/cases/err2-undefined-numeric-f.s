_start:
1:	j 1f
